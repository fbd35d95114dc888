"""Token-embedding encoders trained by weighted reconstruction of context windows.

An encoder maps a token occurrence to a d'-dimensional vector from the window
of 2*w'+1 type embeddings centered on it (boundaries padded with the reserved
start/end symbols).  Two architectures are provided:

* ``FfnEncoder``: concatenated window -> dense(relu hidden) -> linear code;
  the decoder mirrors it and reconstructs the whole concatenated window.
* ``Seq2SeqEncoder``: an LSTM reads the window left to right and its final
  hidden state is the code; a second LSTM, hidden state initialized to the
  code and fed zero inputs, emits one affine-projected vector per position.

Training minimizes the weighted reconstruction error: the position-weighted
sum of squared distances between each reconstructed vector and the type
embedding it should match.  Type embeddings stay fixed throughout.
"""

from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .nn import MLP, Dense, LstmCell, SgdMomentum, TrainingDiverged
from .serialize import load_model, restore_params, save_model

SCHEME_NAMES = ("uniform", "focused", "tapered")


@dataclass(frozen=True)
class WeightScheme:
    """Reconstruction weight profile over window positions.

    ``focused`` boosts only the center position to ``center_weight``;
    ``tapered`` fixes the profile 4 / 3 / 2 / 1 moving out from the center;
    ``uniform`` weighs every position 1.
    """

    name: str = "focused"
    center_weight: float = 2.0

    def __post_init__(self):
        if self.name not in SCHEME_NAMES:
            raise ValueError(f"unknown weighting scheme {self.name!r}")
        if self.center_weight <= 0:
            raise ValueError("center weight must be positive")


def window_weights(scheme, w_prime):
    """Weight vector of length 2*w_prime+1 for the given scheme."""
    if w_prime < 1:
        raise ValueError("window radius must be at least 1")
    width = 2 * w_prime + 1
    if scheme.name == "uniform":
        return np.ones(width)
    if scheme.name == "focused":
        w = np.ones(width)
        w[w_prime] = scheme.center_weight
        return w
    # tapered: 4 at the center, 3 at distance 1, 2 at distance 2, 1 beyond
    dist = np.abs(np.arange(width) - w_prime)
    return np.maximum(4.0 - dist, 1.0)


def extract_window(ids, j, w_prime, bos_id, eos_id):
    """Ids of the 2*w_prime+1 window centered at ``j``, padded at the edges."""
    ids = np.asarray(ids)
    n = len(ids)
    if not 0 <= j < n:
        raise ValueError(f"position {j} out of range for sentence of length {n}")
    if w_prime < 1:
        raise ValueError("window radius must be at least 1")
    pos = j + np.arange(-w_prime, w_prime + 1)
    out = ids[np.clip(pos, 0, n - 1)].copy()
    out[pos < 0] = bos_id
    out[pos >= n] = eos_id
    return out


def sentence_windows(ids, w_prime, bos_id, eos_id):
    """All windows of a sentence as an (n, 2*w_prime+1) id matrix."""
    ids = np.asarray(ids)
    n = len(ids)
    pos = np.arange(n)[:, None] + np.arange(-w_prime, w_prime + 1)[None, :]
    out = ids[np.clip(pos, 0, n - 1)]
    out = np.where(pos < 0, bos_id, out)
    out = np.where(pos >= n, eos_id, out)
    return out


def corpus_windows(table, sentences, w_prime):
    vocab = table.vocab
    mats = [
        sentence_windows(vocab.to_ids(toks), w_prime, vocab.bos_id, vocab.eos_id)
        for toks in sentences
        if toks
    ]
    if not mats:
        return np.zeros((0, 2 * w_prime + 1), dtype=np.int64)
    return np.concatenate(mats, axis=0)


def wre_value(reconstructions, targets, weights):
    """Mean over the batch of sum_i weights[i] * ||rec_i - target_i||^2."""
    diff = np.asarray(reconstructions) - np.asarray(targets)
    per = (np.asarray(weights)[None, :, None] * diff * diff).sum(axis=(1, 2))
    return float(per.mean())


class FfnEncoder:
    """Feedforward window autoencoder.

    Encoder: dense(d*(2w'+1) -> hidden, relu) then dense(hidden -> d', linear).
    Decoder mirrors it back to the full concatenated window.
    """

    arch = "ffn"

    def __init__(self, dim, w_prime, token_dim=256, hidden=512, rng=None,
                 dtype=np.float32):
        if w_prime < 0:
            raise ValueError("window radius must be non-negative")
        self.dim = int(dim)
        self.w_prime = int(w_prime)
        self.token_dim = int(token_dim)
        self.hidden = int(hidden)
        width = self.dim * self.window_len
        self.encoder = MLP([width, hidden, token_dim], ["relu", "linear"], rng, dtype)
        self.decoder = MLP([token_dim, hidden, width], ["relu", "linear"], rng, dtype)

    @property
    def window_len(self):
        return 2 * self.w_prime + 1

    def _inputs(self, table, windows):
        if table.dim != self.dim:
            raise ValueError(f"table dim {table.dim} != encoder dim {self.dim}")
        E = table.vectors[windows]  # (B, window, d)
        return E, E.reshape(len(windows), -1)

    def encode(self, table, windows):
        """Token embeddings for an (B, 2w'+1) id matrix (or a single window)."""
        windows = np.asarray(windows)
        single = windows.ndim == 1
        _, X = self._inputs(table, np.atleast_2d(windows))
        Y, _ = self.encoder.forward(X)
        return Y[0] if single else Y

    def encode_sentence(self, table, ids):
        vocab = table.vocab
        wins = sentence_windows(ids, self.w_prime, vocab.bos_id, vocab.eos_id)
        return self.encode(table, wins)

    def decode(self, codes):
        """Reconstructions (B, 2w'+1, d) from codes (B, d')."""
        codes = np.atleast_2d(np.asarray(codes))
        flat, _ = self.decoder.forward(codes)
        return flat.reshape(len(codes), self.window_len, self.dim)

    def loss_and_grads(self, table, windows, weights):
        windows = np.atleast_2d(np.asarray(windows))
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.window_len,):
            raise ValueError(f"need {self.window_len} weights, got {weights.shape}")
        targets, X = self._inputs(table, windows)
        B = len(windows)
        codes, enc_cache = self.encoder.forward(X)
        flat, dec_cache = self.decoder.forward(codes)
        rec = flat.reshape(B, self.window_len, self.dim)
        diff = rec - targets
        per = (weights[None, :, None] * diff * diff).sum(axis=(1, 2))
        loss = float(per.mean())
        dRec = (2.0 / B) * weights[None, :, None] * diff
        dFlat = dRec.reshape(B, -1).astype(flat.dtype)
        dCodes, dec_grads = self.decoder.backward(dFlat, dec_cache)
        _, enc_grads = self.encoder.backward(dCodes, enc_cache)
        grads = {f"enc.{k}": v for k, v in enc_grads.items()}
        grads.update({f"dec.{k}": v for k, v in dec_grads.items()})
        return loss, grads

    def mean_wre(self, table, windows, weights, batch=4096):
        """Forward-only mean reconstruction error over many windows."""
        total = 0.0
        for k in range(0, len(windows), batch):
            chunk = windows[k:k + batch]
            targets, X = self._inputs(table, chunk)
            codes, _ = self.encoder.forward(X)
            rec = self.decode(codes)
            total += wre_value(rec, targets, weights) * len(chunk)
        return total / len(windows)

    def params(self):
        out = {f"enc.{k}": v for k, v in self.encoder.params().items()}
        out.update({f"dec.{k}": v for k, v in self.decoder.params().items()})
        return out

    def config(self):
        return {"arch": self.arch, "dim": self.dim, "w_prime": self.w_prime,
                "token_dim": self.token_dim, "hidden": self.hidden}

    def save(self, path, scheme=None):
        cfg = self.config()
        if scheme is not None:
            cfg["scheme"] = {"name": scheme.name, "center_weight": scheme.center_weight}
        save_model(path, self.arch, cfg, self.params())


class Seq2SeqEncoder:
    """LSTM window autoencoder.

    The encoder LSTM reads the window left to right from a zero state; its
    final hidden vector is the token embedding.  The decoder LSTM starts with
    hidden state equal to that code (cell state zero), consumes a zero input
    at every step, and each hidden vector is affinely projected to one
    reconstructed type vector, in original window order.
    """

    arch = "seq2seq"

    def __init__(self, dim, w_prime, token_dim=256, rng=None, dtype=np.float32):
        if w_prime < 0:
            raise ValueError("window radius must be non-negative")
        self.dim = int(dim)
        self.w_prime = int(w_prime)
        self.token_dim = int(token_dim)
        self.hidden = int(token_dim)
        self.enc_cell = LstmCell(dim, token_dim, rng, dtype)
        self.dec_cell = LstmCell(dim, token_dim, rng, dtype)
        self.proj = Dense(token_dim, dim, "linear", rng, dtype)

    @property
    def window_len(self):
        return 2 * self.w_prime + 1

    def _embed(self, table, windows):
        if table.dim != self.dim:
            raise ValueError(f"table dim {table.dim} != encoder dim {self.dim}")
        return table.vectors[windows]  # (B, window, d)

    def _encode_seq(self, E):
        B = E.shape[0]
        h, c = self.enc_cell.zero_state(B)
        caches = []
        for t in range(E.shape[1]):
            h, c, cache = self.enc_cell.step(E[:, t, :], h, c)
            caches.append(cache)
        return h, caches

    def _decode_seq(self, codes):
        B = len(codes)
        h = codes
        c = np.zeros_like(codes)
        zero_in = np.zeros((B, self.dim), dtype=codes.dtype)
        rec = np.empty((B, self.window_len, self.dim), dtype=codes.dtype)
        dec_caches, proj_caches = [], []
        for t in range(self.window_len):
            h, c, cache = self.dec_cell.step(zero_in, h, c)
            r, pcache = self.proj.forward(h)
            rec[:, t, :] = r
            dec_caches.append(cache)
            proj_caches.append(pcache)
        return rec, dec_caches, proj_caches

    def encode(self, table, windows):
        windows = np.asarray(windows)
        single = windows.ndim == 1
        E = self._embed(table, np.atleast_2d(windows)).astype(self.proj.W.dtype)
        h, _ = self._encode_seq(E)
        return h[0] if single else h

    def encode_sentence(self, table, ids):
        vocab = table.vocab
        wins = sentence_windows(ids, self.w_prime, vocab.bos_id, vocab.eos_id)
        return self.encode(table, wins)

    def decode(self, codes):
        codes = np.atleast_2d(np.asarray(codes, dtype=self.proj.W.dtype))
        rec, _, _ = self._decode_seq(codes)
        return rec

    def loss_and_grads(self, table, windows, weights):
        windows = np.atleast_2d(np.asarray(windows))
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.window_len,):
            raise ValueError(f"need {self.window_len} weights, got {weights.shape}")
        dtype = self.proj.W.dtype
        targets = self._embed(table, windows).astype(dtype)
        B = len(windows)
        codes, enc_caches = self._encode_seq(targets)
        rec, dec_caches, proj_caches = self._decode_seq(codes)
        diff = rec - targets
        per = (weights[None, :, None] * diff * diff).sum(axis=(1, 2))
        loss = float(per.mean())
        dRec = ((2.0 / B) * weights[None, :, None] * diff).astype(dtype)

        grads = {}

        def add(prefix, g):
            for k, v in g.items():
                key = f"{prefix}.{k}"
                if key in grads:
                    grads[key] += v
                else:
                    grads[key] = v

        dh = np.zeros_like(codes)
        dc = np.zeros_like(codes)
        for t in reversed(range(self.window_len)):
            dh_proj, pgrads = self.proj.backward(dRec[:, t, :], proj_caches[t])
            add("proj", pgrads)
            _, dh, dc, g = self.dec_cell.step_backward(dh + dh_proj, dc, dec_caches[t])
            add("dec", g)
        # dh now carries the gradient w.r.t. the decoder's initial hidden state,
        # which is the encoder output; the zero initial cell state absorbs dc.
        dc = np.zeros_like(codes)
        for t in reversed(range(self.window_len)):
            _, dh, dc, g = self.enc_cell.step_backward(dh, dc, enc_caches[t])
            add("enc", g)
        return loss, grads

    def mean_wre(self, table, windows, weights, batch=4096):
        total = 0.0
        dtype = self.proj.W.dtype
        for k in range(0, len(windows), batch):
            chunk = windows[k:k + batch]
            targets = self._embed(table, chunk).astype(dtype)
            codes, _ = self._encode_seq(targets)
            rec = self.decode(codes)
            total += wre_value(rec, targets, weights) * len(chunk)
        return total / len(windows)

    def params(self):
        out = {f"enc.{k}": v for k, v in self.enc_cell.params().items()}
        out.update({f"dec.{k}": v for k, v in self.dec_cell.params().items()})
        out.update({f"proj.{k}": v for k, v in self.proj.params().items()})
        return out

    def config(self):
        return {"arch": self.arch, "dim": self.dim, "w_prime": self.w_prime,
                "token_dim": self.token_dim}

    def save(self, path, scheme=None):
        cfg = self.config()
        if scheme is not None:
            cfg["scheme"] = {"name": scheme.name, "center_weight": scheme.center_weight}
        save_model(path, self.arch, cfg, self.params())


def wre_loss(model, table, windows, weights):
    """Weighted reconstruction error and gradients for every model parameter."""
    return model.loss_and_grads(table, windows, weights)


def decode_window(model, codes):
    """Per-position reconstruction vectors from token embeddings."""
    return model.decode(codes)


def build_encoder(arch, dim, w_prime, token_dim=256, hidden=512, rng=None,
                  dtype=np.float32):
    if arch == "ffn":
        return FfnEncoder(dim, w_prime, token_dim, hidden, rng, dtype)
    if arch == "seq2seq":
        return Seq2SeqEncoder(dim, w_prime, token_dim, rng, dtype)
    raise ValueError(f"unknown encoder architecture {arch!r}")


def load_encoder(path):
    """Load an encoder model file; returns (model, scheme or None)."""
    kind, cfg, tensors = load_model(path)
    if kind not in ("ffn", "seq2seq"):
        raise ValueError(f"{path}: not an encoder model (kind={kind!r})")
    model = build_encoder(kind, cfg["dim"], cfg["w_prime"], cfg["token_dim"],
                          cfg.get("hidden", 512))
    restore_params(model.params(), tensors, path)
    scheme = None
    if "scheme" in cfg:
        scheme = WeightScheme(cfg["scheme"]["name"], cfg["scheme"]["center_weight"])
    return model, scheme


@dataclass
class EncoderTrainConfig:
    epochs: int = 5
    batch_size: int = 64
    learning_rate: float = 0.1
    momentum: float = 0.9
    val_every: int = 1000
    seed: int = 0


@dataclass
class EncoderTrainResult:
    initial_val_wre: float
    best_val_wre: float
    final_val_wre: float
    history: list  # (minibatch index, validation WRE) checkpoints
    n_minibatches: int


def train_encoder(model, table, train_sentences, val_sentences, scheme, cfg):
    """Minibatch SGD over every token window of the shuffled corpus.

    Validation WRE (under the training scheme's weights) is measured before
    training, every ``val_every`` minibatches, and at each epoch end; the
    best-scoring parameters are kept and restored before returning.
    """
    if not train_sentences:
        raise ValueError("training corpus is empty")
    if not val_sentences:
        raise ValueError("validation corpus is empty")
    train_wins = corpus_windows(table, train_sentences, model.w_prime)
    val_wins = corpus_windows(table, val_sentences, model.w_prime)
    if not len(train_wins) or not len(val_wins):
        raise ValueError("corpus contains no tokens")
    weights = window_weights(scheme, model.w_prime)

    params = model.params()
    opt = SgdMomentum(params, cfg.learning_rate, cfg.momentum)
    shuffle_rng = rng_mod.stream(cfg.seed, "shuffle")

    best = {k: v.copy() for k, v in params.items()}
    initial = model.mean_wre(table, val_wins, weights)
    best_val = initial
    history = [(0, initial)]

    def checkpoint(step):
        nonlocal best_val
        val = model.mean_wre(table, val_wins, weights)
        history.append((step, val))
        if val < best_val:
            best_val = val
            for k, v in params.items():
                best[k][...] = v

    step = 0
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(len(train_wins))
        for k in range(0, len(order), cfg.batch_size):
            batch = train_wins[order[k:k + cfg.batch_size]]
            loss, grads = model.loss_and_grads(table, batch, weights)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite reconstruction loss at minibatch {step}")
            opt.step(grads)
            step += 1
            if cfg.val_every > 0 and step % cfg.val_every == 0:
                checkpoint(step)
        checkpoint(step)

    for k, v in params.items():
        v[...] = best[k]
    final = model.mean_wre(table, val_wins, weights)
    return EncoderTrainResult(initial, best_val, final, history, step)
