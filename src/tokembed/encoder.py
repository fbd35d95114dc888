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

from dataclasses import asdict, dataclass

import numpy as np

from .embeddings import windows
from .nn import MLP, Dense, LstmCell, fit
from .serialize import (check_config, check_sizes, load_model, restore_params,
                        save_model)

SCHEME_NAMES = ("uniform", "focused", "tapered")

# Windows per forward pass when encoding a corpus: enough rows to amortise the
# per-call cost, few enough that a block's activations stay a few MB.  The
# seq2seq step caches take about 24 kB per row at d'=256, so 1024-row blocks
# already raise the peak memory of a run.
ENCODE_BLOCK = 256


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


def corpus_windows(table, sentences, w_prime):
    vocab = table.vocab
    offsets = np.arange(-w_prime, w_prime + 1)
    mats = [windows(vocab.to_ids(toks), offsets, vocab.bos_id, vocab.eos_id)
            for toks in sentences if toks]
    if not mats:
        return np.zeros((0, 2 * w_prime + 1), dtype=np.int64)
    return np.concatenate(mats, axis=0)


def wre_value(reconstructions, targets, weights):
    """Mean over the batch of sum_i weights[i] * ||rec_i - target_i||^2."""
    diff = np.asarray(reconstructions) - np.asarray(targets)
    per = (np.asarray(weights)[None, :, None] * diff * diff).sum(axis=(1, 2))
    return float(per.mean())


class WindowEncoder:
    """What both architectures share: the window of ``2*w_prime+1`` type
    embeddings a code is computed from, encoding, the forward-only
    reconstruction error and the model file.  Subclasses supply ``_codes``
    (codes of a (B, 2w'+1, d) array of type vectors), ``decode``,
    ``loss_and_grads``, ``params`` and ``config``.
    """

    def __init__(self, dim, w_prime, token_dim, dtype):
        if w_prime < 0:
            raise ValueError("window radius must be non-negative")
        self.dim = int(dim)
        self.w_prime = int(w_prime)
        self.token_dim = int(token_dim)
        self.dtype = np.dtype(dtype)

    @property
    def window_len(self):
        return 2 * self.w_prime + 1

    def _embed(self, table, windows):
        """(B, 2w'+1, d) type vectors of a window matrix, in the model dtype."""
        if table.dim != self.dim:
            raise ValueError(f"table dim {table.dim} != encoder dim {self.dim}")
        return table.vectors[windows].astype(self.dtype, copy=False)

    def _targets(self, table, windows, weights):
        """Type vectors and float64 position weights of a training batch."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.window_len,):
            raise ValueError(f"need {self.window_len} weights, got {weights.shape}")
        return self._embed(table, np.atleast_2d(np.asarray(windows))), weights

    def encode(self, table, windows):
        """Token embeddings for an (B, 2w'+1) id matrix (or a single window)."""
        windows = np.asarray(windows)
        codes = self._codes(self._embed(table, np.atleast_2d(windows)))
        return codes[0] if windows.ndim == 1 else codes

    def encode_sentence(self, table, ids):
        """Token embeddings of every position of a sentence of ids."""
        vocab = table.vocab
        offsets = np.arange(-self.w_prime, self.w_prime + 1)
        return self.encode(table, windows(ids, offsets, vocab.bos_id, vocab.eos_id))

    def mean_wre(self, table, windows, weights, batch=4096):
        """Forward-only mean reconstruction error over many windows."""
        total = 0.0
        for k in range(0, len(windows), batch):
            targets = self._embed(table, windows[k:k + batch])
            rec = self.decode(self._codes(targets))
            total += wre_value(rec, targets, weights) * len(targets)
        return total / len(windows)

    def config(self):
        return {"arch": self.arch, "dim": self.dim, "w_prime": self.w_prime,
                "token_dim": self.token_dim}

    def save(self, path, scheme=None):
        cfg = self.config()
        if scheme is not None:
            cfg["scheme"] = asdict(scheme)
        save_model(path, self.arch, cfg, self.params())


class FfnEncoder(WindowEncoder):
    """Feedforward window autoencoder.

    Encoder: dense(d*(2w'+1) -> hidden, relu) then dense(hidden -> d', linear).
    Decoder mirrors it back to the full concatenated window.
    """

    arch = "ffn"

    def __init__(self, dim, w_prime, token_dim=256, hidden=512, rng=None,
                 dtype=np.float32):
        super().__init__(dim, w_prime, token_dim, dtype)
        self.hidden = int(hidden)
        width = self.dim * self.window_len
        self.encoder = MLP([width, hidden, token_dim], ["relu", "linear"], rng, dtype)
        self.decoder = MLP([token_dim, hidden, width], ["relu", "linear"], rng, dtype)

    def _codes(self, E):
        codes, _ = self.encoder.forward(E.reshape(len(E), self.dim * E.shape[1]))
        return codes

    def decode(self, codes):
        """Reconstructions (B, 2w'+1, d) from codes (B, d')."""
        codes = np.atleast_2d(np.asarray(codes))
        flat, _ = self.decoder.forward(codes)
        return flat.reshape(len(codes), self.window_len, self.dim)

    def loss_and_grads(self, table, windows, weights):
        targets, weights = self._targets(table, windows, weights)
        B = len(targets)
        codes, enc_cache = self.encoder.forward(targets.reshape(B, -1))
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

    def params(self):
        out = {f"enc.{k}": v for k, v in self.encoder.params().items()}
        out.update({f"dec.{k}": v for k, v in self.decoder.params().items()})
        return out

    def config(self):
        return {**super().config(), "hidden": self.hidden}


class Seq2SeqEncoder(WindowEncoder):
    """LSTM window autoencoder.

    The encoder LSTM reads the window left to right from a zero state; its
    final hidden vector is the token embedding.  The decoder LSTM starts with
    hidden state equal to that code (cell state zero), consumes a zero input
    at every step, and each hidden vector is affinely projected to one
    reconstructed type vector, in original window order.
    """

    arch = "seq2seq"

    def __init__(self, dim, w_prime, token_dim=256, rng=None, dtype=np.float32):
        super().__init__(dim, w_prime, token_dim, dtype)
        self.hidden = self.token_dim
        self.enc_cell = LstmCell(dim, token_dim, rng, dtype)
        self.dec_cell = LstmCell(dim, token_dim, rng, dtype)
        self.proj = Dense(token_dim, dim, "linear", rng, dtype)

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

    def _codes(self, E):
        return self._encode_seq(E)[0]

    def decode(self, codes):
        codes = np.atleast_2d(np.asarray(codes, dtype=self.dtype))
        rec, _, _ = self._decode_seq(codes)
        return rec

    def loss_and_grads(self, table, windows, weights):
        targets, weights = self._targets(table, windows, weights)
        B = len(targets)
        codes, enc_caches = self._encode_seq(targets)
        rec, dec_caches, proj_caches = self._decode_seq(codes)
        diff = rec - targets
        per = (weights[None, :, None] * diff * diff).sum(axis=(1, 2))
        loss = float(per.mean())
        dRec = ((2.0 / B) * weights[None, :, None] * diff).astype(self.dtype)

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

    def params(self):
        out = {f"enc.{k}": v for k, v in self.enc_cell.params().items()}
        out.update({f"dec.{k}": v for k, v in self.dec_cell.params().items()})
        out.update({f"proj.{k}": v for k, v in self.proj.params().items()})
        return out


def wre_loss(model, table, windows, weights):
    """Weighted reconstruction error and gradients for every model parameter."""
    return model.loss_and_grads(table, windows, weights)


def build_encoder(arch, dim, w_prime, token_dim=256, hidden=512, rng=None,
                  dtype=np.float32):
    sizes = {"dim": dim, "token_dim": token_dim}
    if arch == "ffn":
        sizes["hidden"] = hidden
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"{name} must be positive, got {size}")
    if arch == "ffn":
        return FfnEncoder(dim, w_prime, token_dim, hidden, rng, dtype)
    if arch == "seq2seq":
        return Seq2SeqEncoder(dim, w_prime, token_dim, rng, dtype)
    raise ValueError(f"unknown encoder architecture {arch!r}")


# Header config of an encoder file; only ffn files hold "hidden", and only
# files saved with their training scheme hold "scheme".
_CONFIG_FIELDS = {"arch": str, "dim": int, "w_prime": int, "token_dim": int,
                 "hidden": int, "scheme": {"name": str, "center_weight": float}}


def load_encoder(path):
    """Load an encoder model file; returns (model, scheme or None)."""
    kind, cfg, tensors = load_model(path)
    if kind not in ("ffn", "seq2seq"):
        raise ValueError(f"{path}: not an encoder model (kind={kind!r})")
    check_config(path, cfg, _CONFIG_FIELDS, optional=("hidden", "scheme"))
    if kind == "ffn":
        width = cfg["dim"] * (2 * cfg["w_prime"] + 1)
        sizes = {"config.hidden": ("enc.0.b", (cfg.get("hidden", 512),)),
                 "config.token_dim": ("enc.1.b", (cfg["token_dim"],)),
                 "config.dim, config.w_prime": ("dec.1.b", (width,))}
    else:
        sizes = {"config.token_dim": ("enc.bi", (cfg["token_dim"],)),
                 "config.dim": ("proj.b", (cfg["dim"],))}
    check_sizes(path, tensors, sizes)
    try:
        model = build_encoder(kind, cfg["dim"], cfg["w_prime"], cfg["token_dim"],
                              cfg.get("hidden", 512))
        scheme = WeightScheme(**cfg["scheme"]) if "scheme" in cfg else None
    except ValueError as e:
        raise ValueError(f"{path}: config: {e}") from None
    restore_params(model.params(), tensors, path)
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
    training, every ``val_every`` minibatches, and at each epoch end unless
    the epoch's last minibatch was just measured; the best-scoring
    parameters are kept and restored before returning.
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

    def batch_loss(sel):
        return model.loss_and_grads(table, train_wins[sel], weights)

    def evaluate():
        return model.mean_wre(table, val_wins, weights)

    res = fit(model.params(), len(train_wins), batch_loss, evaluate, cfg,
              maximize=False, eval_every=cfg.val_every)
    history = [(step, val) for _, step, val in res.history]
    return EncoderTrainResult(history[0][1], res.best, evaluate(), history, res.steps)
